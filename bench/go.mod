module lexequal/bench

go 1.22

require lexequal v0.0.0

replace lexequal => ../
