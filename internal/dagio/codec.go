package dagio

import (
	"encoding/json"

	"repro/internal/jsonlite"
)

// This file is the hand codec for Document, the workflow a session's journal
// opens with. A Genome-L document is 770 KB; reflect-driven encoding/json
// spent most of a session create writing it and most of a journal replay
// reading it back, so both directions are written against jsonlite instead.
//
// AppendDocument is byte-identical to json.Marshal. ParseDocument is
// verbatim-or-nothing: it decodes a document exactly as json.Unmarshal would
// decode it into a fresh Document, or reports jsonlite.ErrInexact (or a
// syntax error) and leaves the input to encoding/json. It decodes no key that
// encoding/json would match by case folding, no repeated key, no escaped or
// non-UTF-8 string and no null in a scalar field; Meta, free-form, is handed
// to encoding/json as its span.

// AppendDocument appends doc encoded exactly as json.Marshal encodes it. A
// non-finite float fails as it does in json.Marshal; the bytes appended
// before the error are then not a document.
func AppendDocument(dst []byte, doc *Document) ([]byte, error) {
	var err error
	dst = append(dst, `{"name":`...)
	dst = jsonlite.AppendString(dst, doc.Name)
	dst = append(dst, `,"stages":`...)
	if doc.Stages == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range doc.Stages {
			if i > 0 {
				dst = append(dst, ',')
			}
			st := &doc.Stages[i]
			dst = append(dst, `{"id":`...)
			dst = jsonlite.AppendInt(dst, int64(st.ID))
			dst = append(dst, `,"name":`...)
			dst = jsonlite.AppendString(dst, st.Name)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"tasks":`...)
	if doc.Tasks == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range doc.Tasks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst, err = appendTaskDoc(dst, &doc.Tasks[i], err)
		}
		dst = append(dst, ']')
	}
	if doc.Meta != nil {
		meta, merr := json.Marshal(doc.Meta)
		if err == nil {
			err = merr
		}
		dst = append(append(dst, `,"meta":`...), meta...)
	}
	return append(dst, '}'), err
}

func appendTaskDoc(dst []byte, td *TaskDoc, err error) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = jsonlite.AppendInt(dst, int64(td.ID))
	dst = append(dst, `,"stage":`...)
	dst = jsonlite.AppendInt(dst, int64(td.Stage))
	if td.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = jsonlite.AppendString(dst, td.Name)
	}
	if len(td.Deps) > 0 {
		dst = append(dst, `,"deps":[`...)
		for i, d := range td.Deps {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonlite.AppendInt(dst, int64(d))
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"exec_time_s":`...)
	dst, err = appendFloat(dst, td.ExecTime, err)
	if td.TransferTime != 0 {
		dst = append(dst, `,"transfer_time_s":`...)
		dst, err = appendFloat(dst, td.TransferTime, err)
	}
	if td.InputSize != 0 {
		dst = append(dst, `,"input_size_mb":`...)
		dst, err = appendFloat(dst, td.InputSize, err)
	}
	if td.OutputSize != 0 {
		dst = append(dst, `,"output_size_mb":`...)
		dst, err = appendFloat(dst, td.OutputSize, err)
	}
	return append(dst, '}'), err
}

// appendFloat threads the first error through the append chain.
func appendFloat(dst []byte, f float64, err error) ([]byte, error) {
	dst, ferr := jsonlite.AppendFloat(dst, f)
	if err == nil {
		err = ferr
	}
	return dst, err
}

// ParseDocument decodes the document value at p.Pos into doc, which must be
// zero, exactly as json.Unmarshal decodes it into a fresh Document, and leaves
// p just past it. An error — jsonlite.ErrInexact for input encoding/json would
// decode differently — says only that this decoder does not vouch for the
// input, never that encoding/json would reject it. A null document is the
// caller's to handle: encoding/json sets the pointer to nil.
func ParseDocument(p *jsonlite.Parser, doc *Document) error {
	var seen uint32
	return p.Object(func(key []byte) error {
		bit, err := p.ExactField(key, &seen, "name", "stages", "tasks", "meta")
		if err != nil {
			return err
		}
		switch bit {
		case 0:
			doc.Name, err = verbatimString(p)
		case 1:
			doc.Stages, err = parseStages(p)
		case 2:
			doc.Tasks, err = parseTasks(p)
		default:
			var span []byte
			if span, err = p.SkipValue(); err == nil {
				err = json.Unmarshal(span, &doc.Meta)
			}
		}
		return err
	})
}

func verbatimString(p *jsonlite.Parser) (string, error) {
	raw, err := p.VerbatimString()
	return string(raw), err
}

func parseStages(p *jsonlite.Parser) ([]StageDoc, error) {
	var out []StageDoc
	isArray, err := p.Array(func() error {
		out = append(out, StageDoc{})
		st := &out[len(out)-1]
		var seen uint32
		return p.Object(func(key []byte) error {
			bit, err := p.ExactField(key, &seen, "id", "name")
			if err != nil {
				return err
			}
			if bit == 0 {
				st.ID, err = parseInt(p)
			} else {
				st.Name, err = verbatimString(p)
			}
			return err
		})
	})
	if isArray && out == nil {
		out = []StageDoc{}
	}
	return out, err
}

func parseTasks(p *jsonlite.Parser) ([]TaskDoc, error) {
	var out []TaskDoc
	isArray, err := p.Array(func() error {
		out = append(out, TaskDoc{})
		return parseTaskDoc(p, &out[len(out)-1])
	})
	if isArray && out == nil {
		out = []TaskDoc{}
	}
	return out, err
}

func parseTaskDoc(p *jsonlite.Parser, td *TaskDoc) error {
	var seen uint32
	return p.Object(func(key []byte) error {
		bit, err := p.ExactField(key, &seen,
			"id", "stage", "name", "deps", "exec_time_s", "transfer_time_s", "input_size_mb", "output_size_mb")
		if err != nil {
			return err
		}
		switch bit {
		case 0:
			td.ID, err = parseInt(p)
		case 1:
			td.Stage, err = parseInt(p)
		case 2:
			td.Name, err = verbatimString(p)
		case 3:
			td.Deps, err = parseInts(p)
		case 4:
			td.ExecTime, err = p.Float()
		case 5:
			td.TransferTime, err = p.Float()
		case 6:
			td.InputSize, err = p.Float()
		default:
			td.OutputSize, err = p.Float()
		}
		return err
	})
}

func parseInt(p *jsonlite.Parser) (int, error) {
	n, err := p.Int()
	if err == nil && int64(int(n)) != n {
		// Out of range for a 32-bit int, which encoding/json refuses.
		err = jsonlite.ErrInexact
	}
	return int(n), err
}

func parseInts(p *jsonlite.Parser) ([]int, error) {
	var out []int
	isArray, err := p.Array(func() error {
		n, err := parseInt(p)
		out = append(out, n)
		return err
	})
	if isArray && out == nil {
		out = []int{}
	}
	return out, err
}
