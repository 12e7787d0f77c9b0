// Package dhgraph is the epochpub rule-1 exemplar: a miniature graph
// package whose Build publishes the first epoch, and whose churn
// functions must leave publishing to the churn owner, which publishes
// only after the event's items have been copied.
package dhgraph

type Ring struct{ epoch uint64 }

func (r *Ring) Publish() { r.epoch++ }

type Graph struct{ Ring *Ring }

// Build is the package's one publish point: construction is complete.
func Build(ring *Ring) *Graph {
	g := &Graph{Ring: ring}
	ring.Publish()
	return g
}

// Insert patches the graph before the new server holds its items;
// publishing here would route readers to an owner that cannot serve.
func (g *Graph) Insert() {
	g.Ring.Publish() // want `Insert publishes an epoch inside dhgraph`
}

// Remove would expose the leaver's range at the absorbing predecessor
// before its items arrived.
func (g *Graph) Remove(r *Ring) {
	r.Publish() // want `Remove publishes an epoch inside dhgraph`
}
