package cat

// Exports for the external test package cat_test (models_test.go), which
// imports package core for the built-in model sources.

// Interp evaluates the model with the oracle interpreter.
func (m *Model) Interp(base *Env) (Results, error) { return m.interp(base) }

var (
	DiffOracle  = diffOracle
	SameResults = sameResults
	PaperExecs  = paperExecs
	HandPicked  = handPicked
)
