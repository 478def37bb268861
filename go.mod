module whatsup

go 1.22.0
