// Fixture: the frame-validation discipline (DESIGN.md §13) as one rule on
// one type. A neighbour-copy cell — the struct type named cell — is
// written only inside its own methods, whose store sits behind the
// sequence windows. A receive path that assigns a copy field itself is the
// forged-frame hole: one well-formed lie steering a correct member's
// phase.
package seqwindow

// Message is a wire frame.
type Message struct {
	SN, CP, PH int
}

type triple struct{ sn, cp, ph int }

// cell is the neighbour copy (name-matched, like the runtime's).
type cell struct {
	triple
	behind bool
}

// store is the cell's own method: the one place a copy may be written.
func (c *cell) store(t triple) { c.triple = t }

// admit consults the window, then stores.
func (c *cell) admit(own int, m Message) bool {
	if m.SN != own && m.SN != own+1 {
		return false
	}
	c.store(triple{m.SN, m.CP, m.PH})
	c.ph++
	return true
}

// node holds one copy of its predecessor and one per child.
type node struct {
	sn   int
	pred cell
	kids []struct{ live, ack cell }
}

// newNode builds cells by composite literal: construction, not a write.
func newNode(n int) *node {
	return &node{pred: cell{behind: true}, kids: make([]struct{ live, ack cell }, n)}
}

// onStateChecked is the correct receive path: it calls the cell.
func onStateChecked(n *node, m Message) {
	n.pred.admit(n.sn, m)
}

// onStateUnchecked adopts the frame blind — the forged-frame hole.
func onStateUnchecked(n *node, m Message) {
	n.pred.sn = m.SN        // want "copy cell written outside its methods \(n\.pred\.sn in onStateUnchecked\)"
	n.pred.triple.ph = m.PH // want "copy cell written outside its methods \(n\.pred\.triple\.ph in onStateUnchecked\)"
}

// onUpUnchecked is the same bug on the convergecast side, per child.
func onUpUnchecked(n *node, i int, m Message) {
	n.kids[i].ack.sn = m.SN // want "copy cell written outside its methods \(n\.kids\[i\]\.ack\.sn in onUpUnchecked\)"
	n.kids[i].live.ph++     // want "copy cell written outside its methods \(n\.kids\[i\]\.live\.ph in onUpUnchecked\)"
}

// replace overwrites whole cells, directly and through a pointer.
func replace(n *node, c *cell) {
	n.pred = cell{} // want "copy cell written outside its methods \(n\.pred in replace\)"
	*c = n.pred     // want "copy cell written outside its methods \(\*c in replace\)"
}

// plain has the copy-field names but is not a cell: not our business.
type plain struct {
	triple
	sn int
}

func mirror(s *plain, m Message) {
	s.sn, s.triple.ph = m.SN, m.PH
}

// craft reads a cell to build a frame; writes to the frame itself are not
// copy writes.
func craft(n *node, m Message) Message {
	m.SN = n.pred.sn
	local := n.pred
	_ = local
	return m
}
