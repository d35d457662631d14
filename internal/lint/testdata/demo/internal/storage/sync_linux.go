package storage

// syncCost is declared once per platform — here and in sync_other.go —
// so the package type-checks only if build constraints pick exactly one
// of the two files. Each carries one floateq finding, and only the
// selected file's may be reported.
func syncCost(pages float64) bool {
	return pages == 0 // want floateq, on linux
}
