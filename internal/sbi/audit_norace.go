//go:build !race

package sbi

const raceBuild = false
