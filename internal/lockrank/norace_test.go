//go:build !race

package lockrank

const checked = false
