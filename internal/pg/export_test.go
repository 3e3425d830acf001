package pg

import "io"

// DecodeJSONL runs ReadJSONL's line decoder over r and builds no
// graph: what the codec alone costs. It returns the elements decoded.
func DecodeJSONL(r io.Reader) (int, error) {
	dec := newJSONLDecoder(r)
	n := 0
	for {
		_, err := dec.next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}
