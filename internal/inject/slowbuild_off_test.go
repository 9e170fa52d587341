//go:build !race

package inject_test

// slowBuild reports a build whose runtime slows campaigns severalfold.
const slowBuild = false
