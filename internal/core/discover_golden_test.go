package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/schema"
)

// TestGoldenDiscoverOutput pins what default discovery produces: the
// SHA-256 of the persisted schema plus the node and edge type counts,
// for both clustering methods on a clean input and on a label-dropped
// one. Any change to embedding, clustering, merging or inference that
// moves a single byte of the schema shows up here. Discovery is
// floating-point work that another architecture may fuse or order
// differently, so the pins are recorded and compared on amd64 only.
// Regenerate after an intentional change to discovery's output with:
//
//	go test ./internal/core -run Golden -update
func TestGoldenDiscoverOutput(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("discovery pins are recorded on amd64, not %s", runtime.GOARCH)
	}
	var out bytes.Buffer
	for _, in := range []struct {
		name string
		ds   *datagen.Dataset
	}{
		{"LDBC-clean", datagen.Generate(datagen.LDBC(), 0.25, 1)},
		{"MB6-noise0.3-labels0.5", datagen.InjectNoise(datagen.Generate(datagen.MB6(), 0.25, 1), 0.3, 0.5, 7)},
	} {
		g := in.ds.Graph
		for _, method := range []Method{ELSH, MinHash} {
			res := Discover(g, Options{Seed: 1, Method: method})
			var js bytes.Buffer
			if err := schema.WriteJSON(&js, res.Schema); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %v nodeTypes=%d edgeTypes=%d sha256=%x\n", in.name, method,
				len(res.Schema.NodeTypes), len(res.Schema.EdgeTypes), sha256.Sum256(js.Bytes()))
		}
	}
	checkGolden(t, out.Bytes(), "discover.golden")
}
