module segdb/bench

go 1.22

require segdb v0.0.0

replace segdb => ../
