"""python -m skewhowe: the skewhowe command line, as the console script runs it."""

from .cli import main

if __name__ == "__main__":
    main()
