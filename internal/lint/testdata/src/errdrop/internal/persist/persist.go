// Package persist is a fixture stand-in for the durability layer: its
// import path ends in internal/persist, so its error-returning functions
// are durability sources for the errdrop analyzer — except the transport
// sinks that write to a caller-supplied io.Writer.
package persist

import (
	"errors"
	"io"
)

var errBoom = errors.New("persist: boom")

// Save is a durability source: it returns an error and owns its sink.
func Save(path string, data []byte) error {
	if path == "" {
		return errBoom
	}
	return nil
}

// WriteTo is a transport sink: the first parameter is the caller's
// io.Writer, so its error belongs to the transport, not the durability path.
func WriteTo(w io.Writer, data []byte) (int, error) {
	return w.Write(data)
}

// Encoder wraps a caller-supplied io.Writer in its receiver; its methods
// are transport sinks too. The real durability packages have no such type
// today; the fixture keeps the receiver shape covered.
type Encoder struct {
	w io.Writer
}

// NewEncoder returns an Encoder over w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w}
}

// Encode frames data onto the wrapped writer.
func (e *Encoder) Encode(data []byte) error {
	_, err := e.w.Write(data)
	return err
}
