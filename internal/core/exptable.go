package core

import (
	"sync"

	"github.com/scpm/scpm/internal/nullmodel"
)

// expTable is one run's εexp by support: a dense slot per σ in
// [0, |V|], each filled from the null model on first use. Every
// evaluation reads it, so a hit is one atomic load with no lock and no
// map; the model is consulted once per distinct σ, however many
// workers ask. A σ beyond the table goes to the model directly.
type expTable struct {
	model nullmodel.Model
	slots []expSlot
}

// expSlot is one support's εexp, valid once its once has fired.
type expSlot struct {
	once sync.Once
	v    float64
}

// newExpTable returns an empty table over supports up to n.
func newExpTable(model nullmodel.Model, n int) *expTable {
	return &expTable{model: model, slots: make([]expSlot, n+1)}
}

// at returns εexp(sigma) under the table's model.
func (t *expTable) at(sigma int) float64 {
	if sigma < 0 || sigma >= len(t.slots) {
		return t.model.Exp(sigma)
	}
	s := &t.slots[sigma]
	s.once.Do(func() { s.v = t.model.Exp(sigma) })
	return s.v
}
