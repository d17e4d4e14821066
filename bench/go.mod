module shield5g/bench

go 1.22

require shield5g v0.0.0

replace shield5g => ../
