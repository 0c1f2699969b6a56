module petabricks/benchmark

go 1.23

require petabricks v0.0.0

replace petabricks => ../
