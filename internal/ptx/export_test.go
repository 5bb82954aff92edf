package ptx

// ParseInstrOracle is exported for the external test package, whose
// differential ranges over the litmus corpora (package litmus imports
// this one).
var ParseInstrOracle = parseInstrOracle
