package timeseries

// Head exposes the live-region offset for white-box assertions.
func Head(f *Frame) int { return f.head }
