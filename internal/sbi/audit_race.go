//go:build race

package sbi

const raceBuild = true
