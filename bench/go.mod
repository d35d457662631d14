module strtree/bench

go 1.22

require strtree v0.0.0

replace strtree => ../
