package corpus

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Table serialization: one JSON object per line (JSONL), the same layout
// GitTables-style corpora commonly ship in. Exporting lets external tooling
// inspect generated corpora; importing lets the detector run over corpora
// produced elsewhere (e.g. anonymized production schemas).

// WriteJSONL writes tables to w, one JSON document per line.
func WriteJSONL(w io.Writer, tables []*Table) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, t := range tables {
		if err := enc.Encode(t); err != nil {
			return fmt.Errorf("corpus: encode table %d (%s): %w", i, t.Name, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reads tables produced by WriteJSONL.
func ReadJSONL(r io.Reader) ([]*Table, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var out []*Table
	for {
		var t Table
		if err := dec.Decode(&t); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("corpus: decode table %d: %w", len(out), err)
		}
		if err := validateTable(&t); err != nil {
			return nil, fmt.Errorf("corpus: table %d: %w", len(out), err)
		}
		out = append(out, &t)
	}
	return out, nil
}

// validateTable rejects structurally broken imports early.
func validateTable(t *Table) error {
	if t.Name == "" {
		return fmt.Errorf("missing table name")
	}
	rows := -1
	seen := make(map[string]bool, len(t.Columns))
	for i, c := range t.Columns {
		if c.Name == "" {
			return fmt.Errorf("column %d of %s has no name", i, t.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("duplicate column %s.%s", t.Name, c.Name)
		}
		seen[c.Name] = true
		if rows == -1 {
			rows = len(c.Values)
		} else if len(c.Values) != rows {
			return fmt.Errorf("column %s.%s has %d rows, expected %d", t.Name, c.Name, len(c.Values), rows)
		}
	}
	return nil
}
