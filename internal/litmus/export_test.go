package litmus

// Exported for the external test package, whose differential tests also
// range over the diy cycles (package diy imports this one).
var (
	DiffOracle      = diffOracle
	LocationsOracle = locationsOracle
)
