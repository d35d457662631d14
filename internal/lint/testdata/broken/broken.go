// Package broken does not type-check, on purpose: strlint must report
// the error and stop rather than lint around it, because every check
// reads the type checker's answers.
package broken

// Sum adds an int to a string.
func Sum(a int, b string) int {
	return a + b
}
