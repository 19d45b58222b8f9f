module github.com/patree/patree/bench

go 1.22

require github.com/patree/patree v0.0.0

replace github.com/patree/patree => ../
