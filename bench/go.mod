module softrate/bench

go 1.24

require softrate v0.0.0

replace softrate => ../
