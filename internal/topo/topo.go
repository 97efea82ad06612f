// Package topo provides the process topologies of Section 4 of the paper:
// the ring (Fig 2a), two intersecting rings (Fig 2b), the tree whose leaves
// are connected back to the root (Fig 2c), the double tree (Fig 2d), and
// the embedding of the double-tree construction into an arbitrary connected
// graph via a spanning tree.
package topo

import (
	"errors"
	"fmt"
	"sort"
)

// Ring is the Fig 2(a) topology: processes 0..N organized in a ring, the
// token circulating 0 → 1 → … → N → 0. It has N+1 processes.
type Ring struct {
	N int // highest process id; the ring has N+1 processes
}

// NewRing returns a ring of n processes (ids 0..n-1). n must be at least 2.
func NewRing(n int) (Ring, error) {
	if n < 2 {
		return Ring{}, errors.New("topo: a ring needs at least 2 processes")
	}
	return Ring{N: n - 1}, nil
}

// Size returns the number of processes, N+1.
func (r Ring) Size() int { return r.N + 1 }

// Succ returns the successor of j on the token path.
func (r Ring) Succ(j int) int {
	if j == r.N {
		return 0
	}
	return j + 1
}

// Pred returns the predecessor of j on the token path.
func (r Ring) Pred(j int) int {
	if j == 0 {
		return r.N
	}
	return j - 1
}

// Tree is a rooted tree over processes 0..len(Parent)-1 with process 0 at
// the root. In the Fig 2(c) topology every leaf is additionally connected
// to the root, which closes the detection/dissemination cycle in O(h).
type Tree struct {
	Parent   []int   // Parent[0] == -1
	Children [][]int // Children[v] in increasing order
	Depth    []int   // Depth[0] == 0
	Height   int     // max depth
	order    []int   // BFS order from the root
}

// NewKAryTree builds a complete-as-possible k-ary tree with n processes,
// node i's parent being (i-1)/k. n must be ≥ 1 and k ≥ 2.
func NewKAryTree(n, k int) (*Tree, error) {
	if n < 1 {
		return nil, errors.New("topo: a tree needs at least 1 process")
	}
	if k < 2 {
		return nil, errors.New("topo: tree arity must be at least 2")
	}
	parent := make([]int, n)
	parent[0] = -1
	for i := 1; i < n; i++ {
		parent[i] = (i - 1) / k
	}
	return newTree(parent)
}

// NewBinaryTree builds a complete-as-possible binary tree with n processes.
// A 32-process binary tree built this way has height 5 — hence the paper's
// "32 processors (so h = 5)".
func NewBinaryTree(n int) (*Tree, error) { return NewKAryTree(n, 2) }

// NewTree builds a Tree from a parent vector. parent[0] must be -1 and
// every other entry must point to an earlier node (so the vector describes
// a tree rooted at 0 with no cycles).
func NewTree(parent []int) (*Tree, error) {
	return newTree(append([]int(nil), parent...))
}

// newTree is NewTree on a parent vector it may keep. Every child list is
// carved from one backing array (a leaf's stays nil), capped so that an
// append to one cannot overwrite the next.
func newTree(parent []int) (*Tree, error) {
	n := len(parent)
	if n == 0 {
		return nil, errors.New("topo: empty parent vector")
	}
	if parent[0] != -1 {
		return nil, errors.New("topo: parent[0] must be -1 (process 0 is the root)")
	}
	t := &Tree{
		Parent:   parent,
		Children: make([][]int, n),
		Depth:    make([]int, n),
		order:    make([]int, 0, n),
	}
	kids := make([]int, n) // kids[p] counts p's children
	for i := 1; i < n; i++ {
		p := parent[i]
		if p < 0 || p >= i {
			return nil, fmt.Errorf("topo: parent[%d] = %d must reference an earlier node", i, p)
		}
		kids[p]++
		t.Depth[i] = t.Depth[p] + 1
		if t.Depth[i] > t.Height {
			t.Height = t.Depth[i]
		}
	}
	all := make([]int, n-1)
	for v, at := 0, 0; v < n; v++ {
		if c := kids[v]; c > 0 {
			t.Children[v] = all[at : at : at+c]
			at += c
		}
	}
	for i := 1; i < n; i++ {
		t.Children[parent[i]] = append(t.Children[parent[i]], i)
	}
	// BFS order (children are already in increasing order).
	t.order = append(t.order, 0)
	for head := 0; head < len(t.order); head++ {
		t.order = append(t.order, t.Children[t.order[head]]...)
	}
	return t, nil
}

// Size returns the number of processes.
func (t *Tree) Size() int { return len(t.Parent) }

// IsLeaf reports whether v has no children.
func (t *Tree) IsLeaf(v int) bool { return len(t.Children[v]) == 0 }

// Leaves returns the leaves in increasing order.
func (t *Tree) Leaves() []int {
	var ls []int
	for v := range t.Parent {
		if t.IsLeaf(v) {
			ls = append(ls, v)
		}
	}
	return ls
}

// BFSOrder returns the nodes in breadth-first order from the root. The
// returned slice is shared; callers must not modify it.
func (t *Tree) BFSOrder() []int { return t.order }

// Singletons returns n one-member hosts, {0}, {1}, …, {n-1}, carved from
// one backing array: the rosters of a topology whose every member is a
// host of its own.
func Singletons(n int) [][]int {
	hosts, _ := singletons(n)
	return hosts
}

// singletons is Singletons and its backing array, the identity map 0..n-1.
func singletons(n int) (hosts [][]int, ids []int) {
	ids = make([]int, n)
	hosts = make([][]int, n)
	for i := range ids {
		ids[i] = i
		hosts[i] = ids[i : i+1 : i+1]
	}
	return hosts, ids
}

// NewKAryHybrid is NewHybridTree(Singletons(n), k) built straight from
// NewKAryTree: the hybrid whose hosts have one member each, so its member
// tree and its host tree are both the k-ary heap and a member is its own
// host and host root. n must be ≥ 1 and k ≥ 2.
func NewKAryHybrid(n, k int) (*Hybrid, error) {
	t, err := NewKAryTree(n, k)
	if err != nil {
		return nil, err
	}
	hosts, ids := singletons(n)
	return &Hybrid{Tree: t, Hosts: hosts, HostOf: ids, HostRoot: ids, HostTree: t}, nil
}

// Hybrid is the two-level hierarchical topology: members co-located on
// one host form a star under that host's root member (zero network hops
// among local siblings — they fuse onto one scheduler), and the host
// roots form a k-ary tree among themselves (O(log #hosts) network hops).
// The member-level Tree runs the unmodified double-tree protocol; the
// Hosts/HostTree views tell a deployment which edges cross hosts.
type Hybrid struct {
	// Tree is the member-level tree the protocol runs over: within each
	// host a star rooted at the host root, host roots wired by HostTree.
	Tree *Tree
	// Hosts is the normalized host partition: hosts ordered by their
	// minimum member, members within a host in increasing order.
	Hosts [][]int
	// HostOf maps a member id to its host index (into Hosts).
	HostOf []int
	// HostRoot maps a host index to its root member (the host's minimum
	// member id — the one node of the host that has cross-host edges).
	HostRoot []int
	// HostTree is the k-ary tree over host indices that the cross-host
	// transport realizes (heap-shaped, like NewKAryTree over hosts).
	HostTree *Tree
}

// NewHybridTree builds the two-level hybrid topology for a partition of
// members 0..n-1 into hosts. hosts must be a partition (every member in
// exactly one non-empty host); arity is the host tree's branching factor
// (≥ 2). The host holding member 0 becomes the root host.
func NewHybridTree(hosts [][]int, arity int) (*Hybrid, error) {
	if len(hosts) == 0 {
		return nil, errors.New("topo: hybrid needs at least one host")
	}
	if arity < 2 {
		return nil, errors.New("topo: tree arity must be at least 2")
	}
	// Normalize: members within a host ascending, hosts by minimum member.
	norm := make([][]int, len(hosts))
	n := 0
	for i, h := range hosts {
		if len(h) == 0 {
			return nil, fmt.Errorf("topo: host %d is empty", i)
		}
		norm[i] = append([]int(nil), h...)
		sort.Ints(norm[i])
		n += len(h)
	}
	sort.Slice(norm, func(a, b int) bool { return norm[a][0] < norm[b][0] })
	hostOf := make([]int, n)
	for i := range hostOf {
		hostOf[i] = -1
	}
	hostRoot := make([]int, len(norm))
	for hi, h := range norm {
		hostRoot[hi] = h[0]
		for _, m := range h {
			if m < 0 || m >= n {
				return nil, fmt.Errorf("topo: member %d out of range [0,%d)", m, n)
			}
			if hostOf[m] != -1 {
				return nil, fmt.Errorf("topo: member %d appears in two hosts", m)
			}
			hostOf[m] = hi
		}
	}
	// Partition check: every member assigned (range+dup checks above make
	// the count argument sufficient, but a hole is still possible).
	for m, hi := range hostOf {
		if hi == -1 {
			return nil, fmt.Errorf("topo: member %d missing from the host partition", m)
		}
	}
	// Host-level k-ary heap. Host roots ascend with host index (hosts are
	// sorted by minimum member), so every member-tree edge below points to
	// a smaller id and NewTree's parent[i] < i invariant holds.
	var hostTree *Tree
	var err error
	if len(norm) == 1 {
		hostTree = &Tree{Parent: []int{-1}, Children: [][]int{nil}, Depth: []int{0}, order: []int{0}}
	} else if hostTree, err = NewKAryTree(len(norm), arity); err != nil {
		return nil, err
	}
	parent := make([]int, n)
	parent[0] = -1
	for hi, h := range norm {
		root := hostRoot[hi]
		if hi > 0 {
			parent[root] = hostRoot[hostTree.Parent[hi]]
		}
		for _, m := range h[1:] {
			parent[m] = root
		}
	}
	tree, err := NewTree(parent)
	if err != nil {
		return nil, err
	}
	return &Hybrid{Tree: tree, Hosts: norm, HostOf: hostOf, HostRoot: hostRoot, HostTree: hostTree}, nil
}

// TwoRings is the Fig 2(b) topology: two rings that intersect in the
// segment 0..J. Ring 1 continues J → A1 → … → N1 → 0 and ring 2 continues
// J → B1 → … → N2 → 0. Process 0 receives the token only when both ring
// ends (N1 and N2) agree.
type TwoRings struct {
	Shared []int // 0..J, in order; Shared[0] == 0
	Arm1   []int // the ring-1-only processes, ending in N1
	Arm2   []int // the ring-2-only processes, ending in N2
}

// NewTwoRings splits n processes (ids 0..n-1) into a shared prefix of
// length sharedLen (≥1, including process 0) and two arms of as equal
// length as possible. Both arms must be non-empty, so n ≥ sharedLen+2.
func NewTwoRings(n, sharedLen int) (*TwoRings, error) {
	if sharedLen < 1 {
		return nil, errors.New("topo: two rings must share at least process 0")
	}
	if n < sharedLen+2 {
		return nil, errors.New("topo: two rings need at least two non-shared processes")
	}
	tr := &TwoRings{}
	for j := 0; j < sharedLen; j++ {
		tr.Shared = append(tr.Shared, j)
	}
	rest := n - sharedLen
	half := (rest + 1) / 2
	for i := 0; i < half; i++ {
		tr.Arm1 = append(tr.Arm1, sharedLen+i)
	}
	for i := half; i < rest; i++ {
		tr.Arm2 = append(tr.Arm2, sharedLen+i)
	}
	return tr, nil
}

// Size returns the number of processes.
func (t *TwoRings) Size() int { return len(t.Shared) + len(t.Arm1) + len(t.Arm2) }

// N1 returns the last process of arm 1 (a ring-end adjacent to 0).
func (t *TwoRings) N1() int { return t.Arm1[len(t.Arm1)-1] }

// N2 returns the last process of arm 2 (a ring-end adjacent to 0).
func (t *TwoRings) N2() int { return t.Arm2[len(t.Arm2)-1] }

// Ring1 returns ring 1's token path: Shared then Arm1.
func (t *TwoRings) Ring1() []int {
	path := append([]int(nil), t.Shared...)
	return append(path, t.Arm1...)
}

// Ring2 returns ring 2's token path: Shared then Arm2.
func (t *TwoRings) Ring2() []int {
	path := append([]int(nil), t.Shared...)
	return append(path, t.Arm2...)
}

// DoubleTree is the Fig 2(d) topology: a top tree used to disseminate from
// the root and a bottom tree used to detect back toward the root. The
// paper notes any connected graph supports this by embedding one spanning
// tree and using it twice — NewDoubleTreeFromGraph does exactly that.
type DoubleTree struct {
	Down *Tree // dissemination: root → leaves
	Up   *Tree // detection: leaves → root
}

// NewDoubleTree pairs a tree with itself (the Fig 2(c) reading: one tree,
// leaves wired back to the root).
func NewDoubleTree(t *Tree) *DoubleTree { return &DoubleTree{Down: t, Up: t} }

// NewDoubleTreeFromGraph embeds the double-tree construction in an
// arbitrary connected graph given by adjacency lists: a BFS spanning tree
// rooted at process 0 is built and used as both the top and bottom tree.
func NewDoubleTreeFromGraph(adj [][]int) (*DoubleTree, error) {
	n := len(adj)
	if n == 0 {
		return nil, errors.New("topo: empty graph")
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[0] = -1
	queue := []int{0}
	visited := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if w < 0 || w >= n {
				return nil, fmt.Errorf("topo: edge %d→%d out of range", v, w)
			}
			if parent[w] == -2 {
				parent[w] = v
				visited++
				queue = append(queue, w)
			}
		}
	}
	if visited != n {
		return nil, errors.New("topo: graph is not connected")
	}
	// NewTree requires parents to precede children; relabel in BFS order.
	relabel := make([]int, n) // old id → new id
	order := make([]int, 0, n)
	order = append(order, 0)
	for head := 0; head < len(order); head++ {
		v := order[head]
		for _, w := range adj[v] {
			if parent[w] == v && relabel[w] == 0 && w != 0 {
				relabel[w] = len(order)
				order = append(order, w)
			}
		}
	}
	newParent := make([]int, n)
	newParent[0] = -1
	for _, v := range order[1:] {
		newParent[relabel[v]] = relabel[parent[v]]
	}
	t, err := NewTree(newParent)
	if err != nil {
		return nil, err
	}
	return NewDoubleTree(t), nil
}
