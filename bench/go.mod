module github.com/pghive/pghive/bench

go 1.23

require github.com/pghive/pghive v0.0.0

replace github.com/pghive/pghive => ../
