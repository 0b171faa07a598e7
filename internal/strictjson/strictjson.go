// Package strictjson decodes one JSON document strictly: unknown object
// fields and any non-whitespace data after the document are errors, so a
// typo or a concatenated file in a user spec fails loudly instead of being
// silently dropped.
package strictjson

import (
	"encoding/json"
	"errors"
	"io"
)

// Decode reads exactly one JSON document from r into v.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON document")
	}
	return nil
}
