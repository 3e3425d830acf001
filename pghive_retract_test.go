package pghive_test

import (
	"testing"

	pghive "github.com/pghive/pghive"
)

func TestPublicAPIRetraction(t *testing.T) {
	g := buildFigure1(t)
	inc := pghive.NewIncremental(pghive.Options{Seed: 1})
	b := &pghive.Batch{Graph: g, Resolver: g, Index: 1}
	inc.ProcessBatch(b)
	if len(inc.Schema().NodeTypes) == 0 {
		t.Fatal("setup failed")
	}
	// Delete everything: schema must become empty.
	inc.RetractBatch(b)
	res := inc.Finalize()
	if len(res.Schema.NodeTypes) != 0 || len(res.Schema.EdgeTypes) != 0 {
		t.Errorf("schema after full retraction: %d node types, %d edge types",
			len(res.Schema.NodeTypes), len(res.Schema.EdgeTypes))
	}
	if res.NodeAssign.Len() != 0 {
		t.Errorf("assignments must be cleared, have %d", res.NodeAssign.Len())
	}
}
