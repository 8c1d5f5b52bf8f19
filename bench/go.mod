module detshmem/bench

go 1.23

require detshmem v0.0.0

replace detshmem => ../
