"""One module per CLI command; its ``handle(args)`` returns the answer (True, False), the JSON
payload and the text lines, and ``cli.run`` alone prints them.  ``cli.run`` imports a command's
module only once the command line has parsed, so a process compiles the dispatcher, its own
command's module and the engine modules that one calls; ``chain``, the answer chain of
``equal``, ``central`` and ``hom-check``, only for those three.
"""
