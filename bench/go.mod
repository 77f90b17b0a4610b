module sosr/bench

go 1.24

require sosr v0.0.0

replace sosr => ../
