module github.com/lightning-smartnic/lightning/benchmark

go 1.22

require github.com/lightning-smartnic/lightning v0.0.0

replace github.com/lightning-smartnic/lightning => ../
