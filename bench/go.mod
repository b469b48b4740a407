module stackedsim/bench

go 1.24

require stackedsim v0.0.0

replace stackedsim => ../
