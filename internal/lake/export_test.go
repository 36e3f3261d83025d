package lake

// SymbolFloor exposes symbolFloor to the external tests.
const SymbolFloor = symbolFloor

// SymChunk exposes symChunk to the external tests.
const SymChunk = symChunk

// InlineCells exposes inlineCells to the external tests.
const InlineCells = inlineCells
