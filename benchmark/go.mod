module github.com/roulette-db/roulette/benchmark

go 1.22

require github.com/roulette-db/roulette v0.0.0

replace github.com/roulette-db/roulette => ../
