module broken

go 1.22
