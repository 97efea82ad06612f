package topo

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(1); err == nil {
		t.Error("ring of 1 should be rejected")
	}
	r, err := NewRing(5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 5 || r.N != 4 {
		t.Errorf("ring size=%d N=%d", r.Size(), r.N)
	}
}

func TestRingSuccPredInverse(t *testing.T) {
	f := func(nRaw, jRaw uint8) bool {
		n := int(nRaw%30) + 2
		j := int(jRaw) % n
		r, err := NewRing(n)
		if err != nil {
			return false
		}
		return r.Pred(r.Succ(j)) == j && r.Succ(r.Pred(j)) == j
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingCirculationVisitsAll(t *testing.T) {
	r, _ := NewRing(7)
	seen := map[int]bool{}
	j := 0
	for i := 0; i < r.Size(); i++ {
		seen[j] = true
		j = r.Succ(j)
	}
	if len(seen) != 7 || j != 0 {
		t.Errorf("circulation covered %d nodes, back at %d", len(seen), j)
	}
}

func TestBinaryTree32HasHeight5(t *testing.T) {
	// The paper: "the number of processors fixed at 32 (so h = 5)".
	tr, err := NewBinaryTree(32)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height != 5 {
		t.Errorf("height of 32-process binary tree = %d, want 5", tr.Height)
	}
	if tr.Size() != 32 {
		t.Errorf("size = %d", tr.Size())
	}
}

func TestBinaryTree128HasHeight7(t *testing.T) {
	// Figure 7 sweeps h = 1..7; 128 processes is the h=7 point.
	tr, err := NewBinaryTree(128)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height != 7 {
		t.Errorf("height of 128-process binary tree = %d, want 7", tr.Height)
	}
}

func TestTreeValidation(t *testing.T) {
	if _, err := NewTree(nil); err == nil {
		t.Error("empty tree should be rejected")
	}
	if _, err := NewTree([]int{0}); err == nil {
		t.Error("parent[0] != -1 should be rejected")
	}
	if _, err := NewTree([]int{-1, 2, 1}); err == nil {
		t.Error("forward parent reference should be rejected")
	}
	if _, err := NewKAryTree(0, 2); err == nil {
		t.Error("empty k-ary tree should be rejected")
	}
	if _, err := NewKAryTree(4, 1); err == nil {
		t.Error("arity 1 should be rejected")
	}
}

// Property: in a k-ary tree every non-root node's depth is its parent's
// depth plus one, and the BFS order is a permutation visiting parents
// before children.
func TestTreeStructureProperties(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%200) + 1
		k := int(kRaw%4) + 2
		tr, err := NewKAryTree(n, k)
		if err != nil {
			return false
		}
		for v := 1; v < n; v++ {
			if tr.Depth[v] != tr.Depth[tr.Parent[v]]+1 {
				return false
			}
		}
		pos := make([]int, n)
		order := tr.BFSOrder()
		if len(order) != n {
			return false
		}
		seen := make([]bool, n)
		for i, v := range order {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
			pos[v] = i
		}
		for v := 1; v < n; v++ {
			if pos[tr.Parent[v]] >= pos[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLeaves(t *testing.T) {
	tr, _ := NewBinaryTree(7) // perfect binary tree of height 2
	leaves := tr.Leaves()
	if len(leaves) != 4 {
		t.Fatalf("leaves = %v, want 4 leaves", leaves)
	}
	for _, l := range leaves {
		if !tr.IsLeaf(l) {
			t.Errorf("node %d reported as leaf but has children", l)
		}
	}
	if tr.IsLeaf(0) {
		t.Error("root of a 7-node tree is not a leaf")
	}
}

func TestTwoRings(t *testing.T) {
	tr, err := NewTwoRings(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 10 {
		t.Errorf("size = %d", tr.Size())
	}
	r1, r2 := tr.Ring1(), tr.Ring2()
	if r1[0] != 0 || r2[0] != 0 {
		t.Error("both rings must start at process 0")
	}
	if r1[len(r1)-1] != tr.N1() || r2[len(r2)-1] != tr.N2() {
		t.Error("rings must end at their ring-ends")
	}
	// Every process appears in ring1 ∪ ring2; shared prefix appears in both.
	seen := map[int]int{}
	for _, v := range r1 {
		seen[v]++
	}
	for _, v := range r2 {
		seen[v]++
	}
	for v := 0; v < 10; v++ {
		want := 1
		if v < 2 {
			want = 2
		}
		if seen[v] != want {
			t.Errorf("process %d appears %d times, want %d", v, seen[v], want)
		}
	}
}

func TestTwoRingsValidation(t *testing.T) {
	if _, err := NewTwoRings(2, 1); err == nil {
		t.Error("too-small two-ring should be rejected")
	}
	if _, err := NewTwoRings(5, 0); err == nil {
		t.Error("empty shared segment should be rejected")
	}
}

func TestDoubleTreeFromGraph(t *testing.T) {
	// 3x3 grid graph.
	const w = 3
	adj := make([][]int, w*w)
	at := func(r, c int) int { return r*w + c }
	for r := 0; r < w; r++ {
		for c := 0; c < w; c++ {
			v := at(r, c)
			if r > 0 {
				adj[v] = append(adj[v], at(r-1, c))
			}
			if r < w-1 {
				adj[v] = append(adj[v], at(r+1, c))
			}
			if c > 0 {
				adj[v] = append(adj[v], at(r, c-1))
			}
			if c < w-1 {
				adj[v] = append(adj[v], at(r, c+1))
			}
		}
	}
	dt, err := NewDoubleTreeFromGraph(adj)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Down != dt.Up {
		t.Error("graph embedding uses one spanning tree twice")
	}
	if dt.Down.Size() != w*w {
		t.Errorf("spanning tree size = %d, want %d", dt.Down.Size(), w*w)
	}
	// BFS spanning tree of a 3x3 grid from a corner has height 4.
	if dt.Down.Height != 4 {
		t.Errorf("spanning tree height = %d, want 4", dt.Down.Height)
	}
}

func TestDoubleTreeFromDisconnectedGraph(t *testing.T) {
	adj := [][]int{{1}, {0}, {3}, {2}} // two components
	if _, err := NewDoubleTreeFromGraph(adj); err == nil {
		t.Error("disconnected graph should be rejected")
	}
	if _, err := NewDoubleTreeFromGraph(nil); err == nil {
		t.Error("empty graph should be rejected")
	}
	if _, err := NewDoubleTreeFromGraph([][]int{{5}}); err == nil {
		t.Error("out-of-range edge should be rejected")
	}
}

// Property: spanning trees of random connected graphs span all nodes and
// respect parent-before-child numbering.
func TestSpanningTreeOfRandomConnectedGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		adj := make([][]int, n)
		addEdge := func(a, b int) {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		// Random spanning structure guarantees connectivity...
		for v := 1; v < n; v++ {
			addEdge(v, rng.Intn(v))
		}
		// ...plus random extra edges.
		for e := 0; e < n/2; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				addEdge(a, b)
			}
		}
		dt, err := NewDoubleTreeFromGraph(adj)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if dt.Down.Size() != n {
			t.Fatalf("trial %d: tree size %d, want %d", trial, dt.Down.Size(), n)
		}
	}
}

func TestNewDoubleTree(t *testing.T) {
	tr, _ := NewBinaryTree(15)
	dt := NewDoubleTree(tr)
	if dt.Down != tr || dt.Up != tr {
		t.Error("NewDoubleTree should pair the tree with itself")
	}
}

func TestNewHybridTreeShape(t *testing.T) {
	// 4 hosts × 2 members, declared out of order and unsorted: the
	// constructor normalizes to min-member order.
	h, err := NewHybridTree([][]int{{3, 2}, {1, 0}, {7, 6}, {4, 5}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantHosts := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	for i, hs := range wantHosts {
		if len(h.Hosts[i]) != len(hs) {
			t.Fatalf("host %d = %v, want %v", i, h.Hosts[i], hs)
		}
		for j, m := range hs {
			if h.Hosts[i][j] != m {
				t.Fatalf("host %d = %v, want %v", i, h.Hosts[i], hs)
			}
		}
	}
	// Host roots are the minima; host tree is the binary heap over hosts.
	wantRoots := []int{0, 2, 4, 6}
	for i, r := range wantRoots {
		if h.HostRoot[i] != r {
			t.Fatalf("HostRoot[%d] = %d, want %d", i, h.HostRoot[i], r)
		}
	}
	if got := h.HostTree.Parent; got[0] != -1 || got[1] != 0 || got[2] != 0 || got[3] != 1 {
		t.Fatalf("host tree parents = %v", got)
	}
	// Member tree: local members star under their host root; host roots
	// follow the host tree.
	wantParent := []int{-1, 0, 0, 2, 0, 4, 2, 6}
	for i, p := range wantParent {
		if h.Tree.Parent[i] != p {
			t.Fatalf("Parent = %v, want %v", h.Tree.Parent, wantParent)
		}
	}
	for m := 0; m < 8; m++ {
		if h.HostOf[m] != m/2 {
			t.Fatalf("HostOf[%d] = %d, want %d", m, h.HostOf[m], m/2)
		}
	}
}

func TestNewHybridTreeSingleHost(t *testing.T) {
	h, err := NewHybridTree([][]int{{0, 1, 2}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.HostTree.Size() != 1 || h.HostTree.Parent[0] != -1 {
		t.Fatalf("single-host host tree = %+v", h.HostTree)
	}
	if h.Tree.Parent[1] != 0 || h.Tree.Parent[2] != 0 {
		t.Fatalf("single-host member tree = %v", h.Tree.Parent)
	}
}

func TestNewHybridTreeValidation(t *testing.T) {
	cases := [][][]int{
		{},                // no hosts
		{{0, 1}, {}},      // empty host
		{{0, 1}, {1, 2}},  // duplicate member
		{{0, 1}, {3, 4}},  // hole (member 2 missing)
		{{0, 1}, {2, 17}}, // out of range
	}
	for i, hosts := range cases {
		if _, err := NewHybridTree(hosts, 2); err == nil {
			t.Errorf("case %d (%v): expected error", i, hosts)
		}
	}
	if _, err := NewHybridTree([][]int{{0}, {1}}, 1); err == nil {
		t.Error("arity 1 should be rejected")
	}
}

// A tree is the hybrid whose hosts have one member each: over one-member
// hosts NewHybridTree's member tree and host tree are both the k-ary heap,
// and NewKAryHybrid, which builds that hybrid from NewKAryTree, is
// NewHybridTree over Singletons. The runtime places a tree as that hybrid.
func TestOneMemberHostsAreTheKAryTree(t *testing.T) {
	for n := 2; n <= 40; n++ {
		for k := 2; k <= 5; k++ {
			heap, err := NewKAryTree(n, k)
			if err != nil {
				t.Fatal(err)
			}
			hosts := make([][]int, n)
			for i := range hosts {
				hosts[i] = []int{i}
			}
			hy, err := NewHybridTree(hosts, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hy.Tree, heap) || !reflect.DeepEqual(hy.HostTree, heap) {
				t.Errorf("n=%d k=%d: one-member hosts give member tree %v and host tree %v, want the heap %v",
					n, k, hy.Tree.Parent, hy.HostTree.Parent, heap.Parent)
			}
			flat, err := NewKAryHybrid(n, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(flat, hy) || !reflect.DeepEqual(Singletons(n), hosts) {
				t.Errorf("n=%d k=%d: NewKAryHybrid = %+v, want %+v", n, k, flat, hy)
			}
		}
	}
}
