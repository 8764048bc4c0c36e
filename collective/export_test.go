package collective

import "eagersgd/internal/membership"

// Transition applies several membership changes in one epoch transition
// (growing a world by two ranks drains and rebuilds once, not twice) and
// returns the incoming members' Nodes in change order.
func Transition(w *World, changes []membership.Change) ([]*Node, error) {
	return w.transition(changes)
}
