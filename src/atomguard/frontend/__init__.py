"""Mini-language frontend: lexer, parser, syntax records and control-flow graphs."""
