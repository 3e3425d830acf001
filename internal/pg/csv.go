package pg

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// csv.go implements the neo4j-admin bulk-import CSV conventions the
// paper's datasets ship in (POLE, MB6/FIB25, LDBC CSV dumps): node
// files with an `:ID` column and an optional `:LABEL` column, and
// relationship files with `:START_ID`, `:END_ID` and `:TYPE` columns.
// Property columns may carry a type suffix (`age:int`, `score:float`,
// `flag:boolean`, `since:date`, `at:datetime`, `name:string`); untyped
// columns are inferred per the §4.4 priority rules. Unknown type
// suffixes are header errors, typed cells that do not parse as their
// declared type are line errors — with one deliberate exception:
// malformed `date`/`datetime` cells are kept as strings, because the
// evaluated dumps carry free-form legacy timestamps in typed columns.
//
// The record→element decoding lives in nodeCSVReader / edgeCSVReader
// and is shared by the one-shot loaders (ReadNodesCSV, ReadEdgesCSV)
// and the streaming loader (CSVStream), so both paths accept and
// reject exactly the same inputs.

// nodeCSVReader decodes a node CSV one row at a time: the header is
// parsed (and validated) once, then each next() call yields one node.
type nodeCSVReader struct {
	cr     *csv.Reader
	idCol  int
	lblCol int
	props  []csvProp // sorted by key
	line   int       // 1-based line of the most recently read record
}

func newNodeCSVReader(r io.Reader) (*nodeCSVReader, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("pg: csv header: %w", err)
	}
	nr := &nodeCSVReader{cr: cr, idCol: -1, lblCol: -1, line: 1}
	for i, h := range header {
		switch {
		case strings.HasSuffix(h, ":ID"):
			nr.idCol = i
		case h == ":LABEL" || strings.HasSuffix(h, ":LABEL"):
			nr.lblCol = i
		case strings.HasSuffix(h, ":IGNORE"):
		default:
			cp, err := parseCSVHeader(i, h)
			if err != nil {
				return nil, err
			}
			nr.props = append(nr.props, cp)
		}
	}
	if nr.idCol < 0 {
		return nil, fmt.Errorf("pg: node csv needs an :ID column, header %v", header)
	}
	return nr, sortCSVProps(nr.props)
}

// next returns the next node row, or io.EOF at the end of the file.
// Errors carry the 1-based line number.
func (nr *nodeCSVReader) next() (id ID, labels []string, props Props, err error) {
	rec, err := nr.cr.Read()
	if err == io.EOF {
		return 0, nil, nil, io.EOF
	}
	nr.line++
	if err != nil {
		return 0, nil, nil, fmt.Errorf("pg: csv line %d: %w", nr.line, err)
	}
	// FieldsPerRecord = -1 admits ragged rows, so the well-known
	// columns need explicit bounds checks: a short row must be a
	// line-numbered error, not an index-out-of-range panic.
	if nr.idCol >= len(rec) {
		return 0, nil, nil, fmt.Errorf("pg: csv line %d: missing :ID column (row has %d fields)", nr.line, len(rec))
	}
	n, err := strconv.ParseInt(rec[nr.idCol], 10, 64)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("pg: csv line %d: node id %q: %w", nr.line, rec[nr.idCol], err)
	}
	if nr.lblCol >= 0 && nr.lblCol < len(rec) && rec[nr.lblCol] != "" {
		labels = strings.Split(rec[nr.lblCol], ";")
	}
	props, err = csvProps(rec, nr.props)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("pg: csv line %d: %w", nr.line, err)
	}
	return ID(n), labels, props, nil
}

// edgeCSVReader decodes a relationship CSV one row at a time.
type edgeCSVReader struct {
	cr      *csv.Reader
	srcCol  int
	dstCol  int
	typeCol int
	props   []csvProp // sorted by key
	line    int
}

func newEdgeCSVReader(r io.Reader) (*edgeCSVReader, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("pg: csv header: %w", err)
	}
	er := &edgeCSVReader{cr: cr, srcCol: -1, dstCol: -1, typeCol: -1, line: 1}
	for i, h := range header {
		switch {
		case strings.HasSuffix(h, ":START_ID"):
			er.srcCol = i
		case strings.HasSuffix(h, ":END_ID"):
			er.dstCol = i
		case h == ":TYPE" || strings.HasSuffix(h, ":TYPE"):
			er.typeCol = i
		case strings.HasSuffix(h, ":IGNORE"):
		default:
			cp, err := parseCSVHeader(i, h)
			if err != nil {
				return nil, err
			}
			er.props = append(er.props, cp)
		}
	}
	if er.srcCol < 0 || er.dstCol < 0 {
		return nil, fmt.Errorf("pg: relationship csv needs :START_ID and :END_ID columns, header %v", header)
	}
	return er, sortCSVProps(er.props)
}

// next returns the next edge row, or io.EOF at the end of the file.
func (er *edgeCSVReader) next() (src, dst ID, labels []string, props Props, err error) {
	rec, err := er.cr.Read()
	if err == io.EOF {
		return 0, 0, nil, nil, io.EOF
	}
	er.line++
	if err != nil {
		return 0, 0, nil, nil, fmt.Errorf("pg: csv line %d: %w", er.line, err)
	}
	if er.srcCol >= len(rec) {
		return 0, 0, nil, nil, fmt.Errorf("pg: csv line %d: missing :START_ID column (row has %d fields)", er.line, len(rec))
	}
	if er.dstCol >= len(rec) {
		return 0, 0, nil, nil, fmt.Errorf("pg: csv line %d: missing :END_ID column (row has %d fields)", er.line, len(rec))
	}
	s, err := strconv.ParseInt(rec[er.srcCol], 10, 64)
	if err != nil {
		return 0, 0, nil, nil, fmt.Errorf("pg: csv line %d: start id %q: %w", er.line, rec[er.srcCol], err)
	}
	d, err := strconv.ParseInt(rec[er.dstCol], 10, 64)
	if err != nil {
		return 0, 0, nil, nil, fmt.Errorf("pg: csv line %d: end id %q: %w", er.line, rec[er.dstCol], err)
	}
	if er.typeCol >= 0 && er.typeCol < len(rec) && rec[er.typeCol] != "" {
		labels = strings.Split(rec[er.typeCol], ";")
	}
	props, err = csvProps(rec, er.props)
	if err != nil {
		return 0, 0, nil, nil, fmt.Errorf("pg: csv line %d: %w", er.line, err)
	}
	return ID(s), ID(d), labels, props, nil
}

// ReadNodesCSV parses a node CSV into the graph. The header must
// contain an ":ID" column (optionally named, e.g. "personId:ID");
// a ":LABEL" column, when present, carries ;-separated labels.
// Rows with a duplicate ID are rejected.
func ReadNodesCSV(r io.Reader, g *Graph) (int, error) {
	nr, err := newNodeCSVReader(r)
	if err != nil {
		return 0, err
	}
	count := 0
	for {
		id, labels, props, err := nr.next()
		if err == io.EOF {
			return count, nil
		}
		if err != nil {
			return count, err
		}
		if err := g.PutNode(id, labels, props); err != nil {
			return count, fmt.Errorf("pg: csv line %d: %w", nr.line, err)
		}
		count++
	}
}

// ReadEdgesCSV parses a relationship CSV into the graph. The header
// must contain ":START_ID", ":END_ID" and, optionally, ":TYPE"
// (;-separated labels). Edge IDs are assigned sequentially.
func ReadEdgesCSV(r io.Reader, g *Graph) (int, error) {
	er, err := newEdgeCSVReader(r)
	if err != nil {
		return 0, err
	}
	count := 0
	for {
		src, dst, labels, props, err := er.next()
		if err == io.EOF {
			return count, nil
		}
		if err != nil {
			return count, err
		}
		if _, err := g.addEdge(labels, src, dst, props); err != nil {
			return count, fmt.Errorf("pg: csv line %d: %w", er.line, err)
		}
		count++
	}
}

// csvProp describes one property column: its index, key and declared
// type.
type csvProp struct {
	col  int
	key  string
	kind string // "", "int", "long", "float", "double", "boolean", "bool", "string", "date", "datetime"
}

// sortCSVProps puts a header's property columns in key order, the
// order a row's Props takes, and refuses a key two columns name: a
// row could not say which of the two cells it holds.
func sortCSVProps(cols []csvProp) error {
	if k, dup := sortUnique(cols, func(cp csvProp) string { return cp.key }); dup {
		return fmt.Errorf("pg: csv header: property %q names two columns", k)
	}
	return nil
}

// parseCSVHeader splits a property column header into key and declared
// type. A suffix that is not one of the known types is a header error
// — silently treating `age:itn` as an untyped column named "age:itn"
// would let a typo downgrade every value in the column to lexical
// inference.
func parseCSVHeader(col int, h string) (csvProp, error) {
	i := strings.LastIndexByte(h, ':')
	if i < 0 {
		return csvProp{col: col, key: h}, nil
	}
	kind := strings.ToLower(h[i+1:])
	switch kind {
	case "int", "long", "float", "double", "boolean", "bool", "string", "date", "datetime":
		return csvProp{col: col, key: h[:i], kind: kind}, nil
	default:
		return csvProp{}, fmt.Errorf("pg: csv header: column %q: unknown type suffix %q", h, h[i+1:])
	}
}

// csvProps builds a row's properties, in key order, from its
// non-empty cells.
func csvProps(rec []string, cols []csvProp) (Props, error) {
	n := 0
	for _, cp := range cols {
		if cp.col < len(rec) && rec[cp.col] != "" {
			n++
		}
	}
	if n == 0 {
		return nil, nil
	}
	props := make(Props, 0, n)
	for _, cp := range cols {
		if cp.col >= len(rec) || rec[cp.col] == "" {
			continue // absent property
		}
		v, err := csvValue(cp, rec[cp.col])
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", cp.key, err)
		}
		props = append(props, Prop{Key: cp.key, Val: v})
	}
	return props, nil
}

// csvValue is one cell's value, by its column's declared type.
func csvValue(cp csvProp, raw string) (Value, error) {
	switch cp.kind {
	case "int", "long":
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return Value{}, err
		}
		return Int(v), nil
	case "float", "double":
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return Value{}, err
		}
		return Float(v), nil
	case "boolean", "bool":
		// Only true/false are booleans; anything else ("yes", "1", a
		// stray shift of the row) is rejected like the numeric branches
		// reject unparsable cells — silently mapping it to false would
		// corrupt the discovered schema.
		switch {
		case strings.EqualFold(raw, "true"):
			return Bool(true), nil
		case strings.EqualFold(raw, "false"):
			return Bool(false), nil
		}
		return Value{}, fmt.Errorf("invalid boolean %q", raw)
	case "string":
		return Str(raw), nil
	case "date", "datetime":
		v := ParseLexical(raw)
		if v.Kind() != KindDate && v.Kind() != KindDateTime {
			return Str(raw), nil // malformed temporal: keep raw
		}
		return v, nil
	}
	return ParseLexical(raw), nil
}
