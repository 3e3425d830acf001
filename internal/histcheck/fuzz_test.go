package histcheck

// fuzz_test.go: the checker must be total — any byte string either
// decodes into a history that Check classifies (pass or violation)
// or fails to decode; nothing may panic or hang. The seed corpus
// mixes a genuinely recorded live-service history with hand-built
// minimal ones, so mutation starts from realistic structure.

import (
	"encoding/json"
	"testing"

	pghive "github.com/pghive/pghive"
)

func FuzzHistoryCheck(f *testing.F) {
	// Seed 1: a real recorded history from a small live run.
	svc := pghive.NewService(pghive.Options{Seed: 1, Parallelism: 1})
	h, err := Run(func(string) Client { return plainClient(svc) },
		Config{Writers: 2, BatchesPerWriter: 2, Readers: 1, ReadsPerReader: 3})
	if err != nil {
		f.Fatal(err)
	}
	raw, err := json.Marshal(h)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)

	// Seed 2: a minimal valid history.
	f.Add([]byte(`{"writers":{"w0":[{"nodes":5,"edges":5}]},"events":[` +
		`{"session":"w0","start":1,"end":2,"writer":"w0","seq":1},` +
		`{"session":"r0","start":3,"end":4,"obs":{"hasSnapshot":true,"snapshot":1,"hasStats":true,"batches":1,"nodes":5,"edges":5}}]}`))
	// Seed 3: a violating history (torn batch).
	f.Add([]byte(`{"writers":{"w0":[{"nodes":5,"edges":5}]},"events":[` +
		`{"session":"w0","start":1,"end":2,"writer":"w0","seq":1},` +
		`{"session":"r0","start":3,"end":4,"obs":{"hasStats":true,"batches":1,"nodes":3,"edges":3}}]}`))
	// Seed 4: structurally hostile values.
	f.Add([]byte(`{"writers":{"":[]},"events":[{"session":"x","start":9,"end":9,"obs":{}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var h History
		if err := json.Unmarshal(data, &h); err != nil {
			return // not a history; nothing to check
		}
		// Whatever decoded, Check must terminate without panicking.
		_ = Check(&h)

		// And a history the checker accepts must still be accepted
		// after a JSON round trip (the checker is deterministic on
		// the value, not the encoding).
		if Check(&h) == nil {
			raw, err := json.Marshal(&h)
			if err != nil {
				return
			}
			var back History
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatalf("re-decode of accepted history failed: %v", err)
			}
			if err := Check(&back); err != nil {
				t.Fatalf("accepted history rejected after round trip: %v", err)
			}
		}
	})
}
