#!/bin/sh
# The CLI contract checks that CI runs against the installed lsblab, as one
# offline script: exit codes and usage lines, round trips of every method in
# both traversals, the stdlib-only wire contract, the one-line framing error
# and byte-identical bench reports. Run it from an empty directory, where it
# writes its files; LSBLAB names the command (default: lsblab):
#
#   cd "$(mktemp -d)" && sh /path/to/repo/tests/contract.sh
#   LSBLAB="python -m lsblab.cli" sh /path/to/repo/tests/contract.sh
#
# (the second form needs lsblab importable: installed, or src on PYTHONPATH).
# The first failed check stops it with a non-zero exit status.
set -eu

lsblab() {
    command ${LSBLAB:-lsblab} "$@"
}

# the installed entry point: usage, every method and traversal, the wire contract
mkdir entry_point
cd entry_point
# the script calls main() with no argv: it reads sys.argv, builds only the
# named subcommand's parser, and prints the full parser's usage and help
lsblab embed -h > /dev/null
status=0; lsblab 2> /dev/null || status=$?
test $status -eq 2
status=0
lsblab embed --cover c.pgm --payload p.bin --method lsbm --out s.pgm --seed 1 \
             --bogus 2> usage.txt || status=$?
test $status -eq 2
test "$(head -n 1 usage.txt)" = "usage: lsblab [-h] {embed,extract,glcm,features,bench,gen-corpus} ..."
lsblab gen-corpus --n 1 --size 64x64 --seed 1 --out corpus
printf 'attack at dawn' > payload.bin
lsblab embed --method lsbmr-imp --cover corpus/img_0000.pgm --payload payload.bin \
             --out stego.pgm --seed 42 --traversal permuted
lsblab extract --method lsbmr-imp --stego stego.pgm --out recovered.bin \
               --seed 42 --traversal permuted
cmp payload.bin recovered.bin
# the wire contract: the README's stdlib-only rule decodes a permuted lsbm
# stego image whose shuffle bounds run through 17 bit lengths (210000 down to 2)
lsblab gen-corpus --n 1 --size 300x700 --seed 12 --out wire
python -c "import random, sys; sys.stdout.buffer.write(random.Random(10).randbytes(20000))" > wire.bin
lsblab embed --method lsbm --cover wire/img_0000.pgm --payload wire.bin \
             --out wire.pgm --seed 18446744073709551621 --traversal permuted
python -c "
import random, sys
pixels = open('wire.pgm', 'rb').read().split(b'\n', 3)[3]
order = list(range(len(pixels)))
random.Random(18446744073709551621 % 2**64).shuffle(order)
bits = ''.join(str(pixels[i] & 1) for i in order)
n = int(bits[:32], 2)
sys.stdout.buffer.write(int(bits[32 : 32 + n], 2).to_bytes(n // 8, 'big'))
" > wire_back.bin
cmp wire.bin wire_back.bin
# the same payload in the default raster order with lsbmr's pair rule: pixels
# (0, 1), (2, 3), ... each carry LSB(y1), then LSB(floor(y1 / 2) + y2)
lsblab embed --method lsbmr --cover wire/img_0000.pgm --payload wire.bin \
             --out wire_raster.pgm --seed 3
python -c "
import sys
pixels = open('wire_raster.pgm', 'rb').read().split(b'\n', 3)[3]
bits = ''.join(f'{y1 & 1}{((y1 >> 1) + y2) & 1}' for y1, y2 in zip(pixels[0::2], pixels[1::2]))
n = int(bits[:32], 2)
sys.stdout.buffer.write(int(bits[32 : 32 + n], 2).to_bytes(n // 8, 'big'))
" > wire_raster_back.bin
cmp wire.bin wire_raster_back.bin
# a tampered frame: an 8x8 carrier of 255s declares far more payload bits than it holds
python -c "import sys; sys.stdout.buffer.write(b'P5\n8 8\n255\n' + b'\xff' * 64)" > tampered.pgm
for method in lsbm lsbmr; do
  status=0
  lsblab extract --method $method --stego tampered.pgm --out tampered.bin --seed 1 \
                 2> tampered.txt || status=$?
  test $status -eq 1
  test "$(wc -l < tampered.txt)" -eq 1
  grep -q '^framing: ' tampered.txt
done
lsblab glcm --image stego.pgm --offset 1,0 --out glcm.csv
lsblab features --image stego.pgm --out energies.csv
lsblab gen-corpus --n 20 --size 32x32 --seed 3 --out bench_corpus
for run in a b; do
  lsblab bench --corpus bench_corpus --methods lsbm,lsbmr-imp --rates 0.4,0.8 \
               --seed 5 --out bench_$run.csv --svg bench_$run.svg
done
cmp bench_a.csv bench_b.csv
cmp bench_a.svg bench_b.svg
test "$(wc -l < bench_a.csv)" -eq 5
# every method in both traversals on a 128x128 cover at about 0.8 bpp:
# raster guided runs chain along about one row each, permuted runs
# hold many unchained free changes
lsblab gen-corpus --n 1 --size 128x128 --seed 2 --out corpus128
python -c "import random, sys; sys.stdout.buffer.write(random.Random(7).randbytes(1600))" > big.bin
for method in lsbm lsbmr lsbm-imp lsbmr-imp; do
  for traversal in raster permuted; do
    for run in a b; do
      lsblab embed --method $method --cover corpus128/img_0000.pgm --payload big.bin \
                   --out stego_$run.pgm --seed 9 --traversal $traversal
    done
    cmp stego_a.pgm stego_b.pgm
    lsblab extract --method $method --stego stego_a.pgm --out back.bin \
                   --seed 9 --traversal $traversal
    cmp big.bin back.bin
  done
done
# the README's T <= 1 rule (lsbm-imp writes lsbm's bytes) and the cap at
# T = 256 (every larger T writes the same bytes), in both traversals
for traversal in raster permuted; do
  lsblab embed --method lsbm --cover corpus128/img_0000.pgm --payload big.bin \
               --out base.pgm --seed 9 --traversal $traversal
  for t in 1 256 1000000000; do
    lsblab embed --method lsbm-imp --threshold $t --cover corpus128/img_0000.pgm \
                 --payload big.bin --out t_$t.pgm --seed 9 --traversal $traversal
  done
  cmp t_1.pgm base.pgm
  cmp t_256.pgm t_1000000000.pgm
done
# raster guided round trips on strips: 1x4096 and 4096x1 settle as one
# run of chained changes; on 2x2048 lsbm-imp has runs of about 4 free
# changes, lsbmr-imp is one run
python -c "import random, sys; sys.stdout.buffer.write(random.Random(8).randbytes(400))" > strip.bin
for size in 1x4096 4096x1 2x2048; do
  lsblab gen-corpus --n 1 --size $size --seed 4 --out strip_$size
  for method in lsbm-imp lsbmr-imp; do
    for run in a b; do
      lsblab embed --method $method --cover strip_$size/img_0000.pgm --payload strip.bin \
                   --out stego_$run.pgm --seed 11
    done
    cmp stego_a.pgm stego_b.pgm
    lsblab extract --method $method --stego stego_a.pgm --out back.bin --seed 11
    cmp strip.bin back.bin
  done
done
# every method in both traversals on small covers at about 0.8 bpp,
# where each run holds only a few free changes
for spec in 16x16:20 37x23:80; do
  size=${spec%:*}
  python -c "import random, sys; sys.stdout.buffer.write(random.Random(6).randbytes(${spec#*:}))" > small.bin
  lsblab gen-corpus --n 1 --size $size --seed 5 --out small_$size
  for method in lsbm lsbmr lsbm-imp lsbmr-imp; do
    for traversal in raster permuted; do
      for run in a b; do
        lsblab embed --method $method --cover small_$size/img_0000.pgm --payload small.bin \
                     --out stego_$run.pgm --seed 13 --traversal $traversal
      done
      cmp stego_a.pgm stego_b.pgm
      lsblab extract --method $method --stego stego_a.pgm --out back.bin \
                     --seed 13 --traversal $traversal
      cmp small.bin back.bin
    done
  done
done

# a CLI round trip and bench batches of mixed shapes and strips
mkdir ../round_trip
cd ../round_trip
lsblab gen-corpus --n 20 --size 32x32 --seed 3 --out corpus
printf 'attack at dawn' > payload.bin
lsblab embed --method lsbm-imp --cover corpus/img_0000.pgm --payload payload.bin \
             --out stego.pgm --seed 42 --traversal permuted
lsblab extract --method lsbm-imp --stego stego.pgm --out recovered.bin \
               --seed 42 --traversal permuted
cmp payload.bin recovered.bin
lsblab bench --corpus corpus --methods lsbm,lsbmr-imp --rates 0.4,0.8 \
             --seed 5 --out bench.csv
test "$(wc -l < bench.csv)" -eq 5
# two cover sizes, 24 covers: the four improved cells share one threshold and
# settle as one batch per chunk, and a chunk holds four jobs of 66x66 padded
# blocks for at most 15 covers, so the batches are 12 + 3 mixed and 9 small
lsblab gen-corpus --n 12 --size 64x64 --seed 6 --out mixed
lsblab gen-corpus --n 12 --size 40x24 --seed 7 --out mixed_small
for f in mixed_small/*.pgm; do mv "$f" "mixed/small_$(basename "$f")"; done
for run in a b; do
  lsblab bench --corpus mixed --methods lsbm-imp,lsbmr-imp --rates 0.3,0.9 \
               --seed 8 --out mixed_$run.csv --svg mixed_$run.svg
done
cmp mixed_a.csv mixed_b.csv
cmp mixed_a.svg mixed_b.svg
test "$(wc -l < mixed_a.csv)" -eq 5
# 256x2 and 2x256 strips, named so that they alternate: a batch pads every
# block to 258x258, so each chunk holds one cover within the job-pixel budget
lsblab gen-corpus --n 10 --size 256x2 --seed 9 --out strips
lsblab gen-corpus --n 10 --size 2x256 --seed 10 --out strips_tall
for f in strips_tall/*.pgm; do mv "$f" "strips/$(basename "$f" .pgm)_tall.pgm"; done
for run in a b; do
  lsblab bench --corpus strips --methods lsbm,lsbm-imp,lsbmr,lsbmr-imp --rates 0.5 \
               --seed 11 --out strips_$run.csv --svg strips_$run.svg
done
cmp strips_a.csv strips_b.csv
cmp strips_a.svg strips_b.svg
test "$(wc -l < strips_a.csv)" -eq 5
