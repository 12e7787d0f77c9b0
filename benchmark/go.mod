module condisc/benchmark

go 1.24

require condisc v0.0.0

replace condisc => ../
