module reachfixture

go 1.22
