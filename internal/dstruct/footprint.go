package dstruct

import "repro/internal/colblock"

// sizeClasses are the Go allocator's small-object sizes; a larger request
// takes whole 8 KiB pages.
var sizeClasses = [...]int{
	8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256,
	288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024, 1152, 1280,
	1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200, 3456, 4096, 4864, 5120, 5376, 6144,
	6528, 6784, 6912, 8192, 9472, 9728, 10240, 10880, 12288, 13568, 14336, 16384, 18432,
	19072, 20480, 21760, 24576, 27264, 28672, 32768,
}

// AllocSize returns the bytes the allocator hands out for a request of n:
// what an object of that size costs the heap. Footprint figures are sums of
// it, so a count of objects times their sizes comes out at what a heap
// measurement sees.
func AllocSize(n int) int {
	if n <= 0 {
		return 0
	}
	if n > sizeClasses[len(sizeClasses)-1] {
		return (n + 8191) &^ 8191
	}
	lo, hi := 0, len(sizeClasses)-1
	for lo < hi {
		if mid := (lo + hi) / 2; sizeClasses[mid] < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return sizeClasses[lo]
}

// wordBytes is the size of one key word, pointer or slice-header word.
const wordBytes = 8

// codesBytes is the allocation behind a []colblock.Code of capacity c.
func codesBytes(s []colblock.Code) int { return AllocSize(cap(s) * wordBytes) }
