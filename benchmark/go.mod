module wfrc/benchmark

go 1.22

require wfrc v0.0.0

replace wfrc => ../
