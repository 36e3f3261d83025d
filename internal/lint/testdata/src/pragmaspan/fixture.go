// Package pragmaspan is the regression fixture for pragma spans over
// multi-line statements: the dropped fsync error sits three lines below the
// pragma, inside a statement that starts on the line after it. The pragma
// must cover the statement's whole line span — under the old fixed two-line
// span the diagnostic below survived. The fixture expects zero diagnostics:
// the violation is suppressed and the pragma is not stale.
package pragmaspan

import "os"

func covered(f *os.File) {
	//domainnetvet:ignore errdrop fixture: a best-effort flush whose failure the caller cannot act on
	_, _, _ = f.Name(),
		f.Fd(),
		f.Sync()
}
