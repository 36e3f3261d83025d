package lake

// SymbolFloor exposes symbolFloor to the external tests.
const SymbolFloor = symbolFloor
