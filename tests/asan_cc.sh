#!/bin/sh
# A C compiler that builds the native kernel with AddressSanitizer and
# UndefinedBehaviorSanitizer.  Point CC at it, with a fresh
# REPRO_NATIVE_CACHE, and run Python with the ASan runtime preloaded:
#
#   CC=tests/asan_cc.sh REPRO_NATIVE_CACHE=$(mktemp -d) \
#   LD_PRELOAD=$(gcc -print-file-name=libasan.so) \
#   ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
#   PYTHONPATH=src python -m pytest --capture=sys tests/test_native.py
#
# (--capture=sys leaves stderr alone, so a sanitizer report that aborts
# the process is not swallowed with pytest's captured output.)
exec gcc -fsanitize=address,undefined -fno-omit-frame-pointer -g "$@"
