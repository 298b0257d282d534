module scalesim/benchmarks

go 1.24

require scalesim v0.0.0

replace scalesim => ../
