module h2onas/benchmark

go 1.22

require h2onas v0.0.0

replace h2onas => ../
