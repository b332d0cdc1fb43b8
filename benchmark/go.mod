module onex/benchmark

go 1.22

require onex v0.0.0

replace onex => ../
