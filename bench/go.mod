module kadop/bench

go 1.22

require kadop v0.0.0

replace kadop => ../
