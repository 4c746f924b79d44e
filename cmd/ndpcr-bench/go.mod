module ndpcr/cmd/ndpcr-bench

go 1.22

require ndpcr v0.0.0

replace ndpcr => ../..
