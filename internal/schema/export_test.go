package schema

// Exported for the tests of package schema_test, which run discovery:
// package core imports this one, so only an external test can.
var (
	AssertWriteJSONMatchesRef = assertWriteJSONMatchesRef
	FuzzSeedSchema            = fuzzSeedSchema
	DocSchema                 = docSchema
)
