module github.com/yasmin-rt/yasmin/benchmark

go 1.24

require github.com/yasmin-rt/yasmin v0.0.0

replace github.com/yasmin-rt/yasmin => ../
