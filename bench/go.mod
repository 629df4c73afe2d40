module gdmp/bench

go 1.22

require gdmp v0.0.0

replace gdmp => ../
