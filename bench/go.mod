module acobe/bench

go 1.22

require acobe v0.0.0

replace acobe => ../
