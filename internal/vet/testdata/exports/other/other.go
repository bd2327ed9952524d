// Package other is a second package of the module whose test calls lib.
package other
