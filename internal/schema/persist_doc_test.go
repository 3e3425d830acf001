package schema_test

import (
	"bytes"
	"math"
	"testing"

	"github.com/pghive/pghive/internal/core"
	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// TestWriteJSONMatchesRef holds the streaming writer to the
// encoding/json one it replaced (persist_ref_test.go), byte for byte:
// on the empty schema, the fuzz seed, tallies whose IDs spell every
// digit length in both signs (so byte order and numeric order differ),
// strings encoding/json escapes or mends, and what discovery writes for
// the clean and the label-dropped input of TestGoldenDiscoverOutput
// under both clustering methods.
func TestWriteJSONMatchesRef(t *testing.T) {
	cases := map[string]*schema.Schema{"empty": schema.New()}
	seed, err := schema.ReadJSON(bytes.NewReader(schema.FuzzSeedSchema()))
	if err != nil {
		t.Fatal(err)
	}
	cases["fuzz seed"] = seed

	ids := []pg.ID{0, math.MaxInt64, math.MinInt64, 2, 12, 120, 121, 13}
	for p := pg.ID(1); p <= math.MaxInt64/10; p *= 10 {
		ids = append(ids, p, 10*p-1, 3*p, -p, 1-10*p)
	}
	cases["every digit length"] = schema.DocSchema("T", ids)
	for _, str := range []string{"<script>&amp;", "line\u2028para\u2029", "bad\xff\xfeutf8", "\"quote\\\x00\x1f", "< &\xc3>"} {
		cases["strings "+str] = schema.DocSchema(str, ids[:9])
	}

	for _, in := range []struct {
		name string
		ds   *datagen.Dataset
	}{
		{"LDBC-clean", datagen.Generate(datagen.LDBC(), 0.25, 1)},
		{"MB6-noise0.3-labels0.5", datagen.InjectNoise(datagen.Generate(datagen.MB6(), 0.25, 1), 0.3, 0.5, 7)},
	} {
		for _, method := range []core.Method{core.ELSH, core.MinHash} {
			cases[in.name+" "+method.String()] = core.Discover(in.ds.Graph, core.Options{Seed: 1, Method: method}).Schema
		}
	}

	for name, s := range cases {
		t.Run(name, func(t *testing.T) { schema.AssertWriteJSONMatchesRef(t, s) })
	}
}
