#!/usr/bin/env bash
# Smoke test of the installed gup-spectra console script, after
# `pip install -e .` (numpy alone) or `pip install -e '.[test]'`.  Leaves
# direct.csv, unified.csv, pi1.csv, pi2.csv, pi3.cfg and stderr.txt in the
# working directory.
set -eo pipefail

gup-spectra --version
gup-spectra verify all > /dev/null
# order-8 differences on the sinh-sinh map pass the commutator
# suite at both ends of the tau range
gup-spectra verify commutators --tau 1e-4 > /dev/null
gup-spectra verify commutators --tau 50 > /dev/null
# and off natural units, where hbar scales X's coefficients
gup-spectra verify commutators --hbar 2 --mass 3 --omega 0.5 --tau 0.3 > /dev/null
# the master identity holds on Pi2's own (f, g, h) table
gup-spectra verify master-residual | python -c "import json, sys; checks = json.load(sys.stdin)['suites']['master-residual']; assert any('/pi2]' in c['name'] and c['passed'] for c in checks), checks"
# exits_with CODE CMD...: CMD exits CODE with one message and no traceback
exits_with() {
    local want=$1 status=0
    shift
    "$@" 2> stderr.txt || status=$?
    cat stderr.txt >&2
    test "$status" -eq "$want" && ! grep -q Traceback stderr.txt
}
# same_values: direct.csv and unified.csv hold the same four values of
# `expectation --nmax 1 X2 H`, to 1e-8 relative
same_values() {
    python -c "import csv; rows = [list(csv.DictReader(open(f))) for f in ('direct.csv', 'unified.csv')]; assert len(rows[0]) == len(rows[1]) == 4; assert all(abs(float(d['value_re']) - float(u['value_re'])) <= 1e-8 * abs(float(u['value_re'])) for d, u in zip(*rows)), rows"
}
# a divergent moment (lam = 0.54 at tau 5) is a typed failure, exit 3
exits_with 3 gup-spectra expectation --model ho --tau 5 --nmax 0 P4
# so is the oracle at tau = 0 on the Swanson reality boundary, E_0 = 0
exits_with 3 gup-spectra spectrum --model swanson --alpha 0.5 --beta 0.5 --tau 0 --oracle
# so is the direct engine on Pi4 where PT's state diverges at a wall
exits_with 3 gup-spectra expectation --model pt --alpha 1 --beta -0.01 --tau 0.25 --rep pi4 --nmax 1 X2 H
# a negative level index is a malformed flag, exit 1
exits_with 1 gup-spectra wavefunction --n -1
# a config file that cannot be read is a usage error, exit 1
exits_with 1 gup-spectra spectrum --config /nonexistent
# so is a model name the library does not declare
exits_with 1 gup-spectra spectrum --model harmonic-oscillator
# a square past the double range is a typed failure, exit 3
exits_with 3 gup-spectra spectrum --tau 1e200
# so is a physical flag that is not finite
exits_with 1 gup-spectra spectrum --tau nan
# an option the subcommand does not read, spelled in full or not
exits_with 1 gup-spectra phase --tau 0.3
# and a negative tau in a phase list
exits_with 1 gup-spectra phase --taus -1
# and a sample count for either engine: the direct engine sizes its
# samples from the level, the unified engine reads none
exits_with 1 gup-spectra expectation --model ho --tau 0.2 --nmax 1 --grid 64 H
exits_with 1 gup-spectra expectation --model ho --tau 0.2 --rep pi1 --nmax 1 --grid 64 H
# a superscript is not a power: an unknown symbol, exit 3
exits_with 3 gup-spectra expectation --tau 0.2 --nmax 0 X²
# a string word spells a power of H
gup-spectra expectation --tau 0.25 --nmax 2 H2 > /dev/null
# an attractive wall with s = 0.566, near the -1/4 collapse
gup-spectra spectrum --model swanson --alpha 0.0649192447101177 --beta 0.10509346510543284 --tau 2.1061254796270354 --rep pi3 --nmax 5 --oracle --check --tol 1e-5 > /dev/null
# 21 levels start the oracle's degrees at 45
gup-spectra spectrum --model ho --tau 0.25 --nmax 20 --oracle --check > /dev/null
# 101 levels of a narrow well near the commutative limit, wall exponents 1e4
gup-spectra spectrum --model ho --tau 1e-4 --nmax 100 --oracle --check > /dev/null
# and of PT(1, 0.5) there on Pi1, where the mass matrix reaches degree 313
gup-spectra spectrum --model pt --alpha 1 --beta 0.5 --tau 1e-4 --nmax 100 --oracle --check > /dev/null
# and of PT(1, 0.5) on Pi3 at tau 50, which takes five degrees: the first
# two share one rule, the later ones take their own
gup-spectra spectrum --model pt --alpha 1 --beta 0.5 --tau 50 --rep pi3 --nmax 100 --oracle --check > /dev/null
# 901 levels, the degree growing by an eighth per step past 192
gup-spectra spectrum --model ho --tau 0.25 --nmax 900 --oracle --check > /dev/null
# Pi2 and Pi1 transform their own (f, g, h) to the same well: both pass,
# with the same closed forms and oracles that agree to 1e-10
gup-spectra spectrum --model swanson --alpha 0.1 --beta 0.2 --tau 0.25 --rep pi2 --nmax 3 --oracle --check > pi2.csv
gup-spectra spectrum --model swanson --alpha 0.1 --beta 0.2 --tau 0.25 --rep pi1 --nmax 3 --oracle --check > pi1.csv
python -c "import csv; rows = [list(csv.DictReader(open(f))) for f in ('pi2.csv', 'pi1.csv')]; assert len(rows[0]) == len(rows[1]) == 4; assert all(a[k] == b[k] for a, b in zip(*rows) for k in ('n', 'energy_re', 'energy_im')), rows; assert all(abs(float(a['energy_oracle']) - float(b['energy_oracle'])) <= 1e-10 * abs(float(b['energy_oracle'])) for a, b in zip(*rows)), rows"
# the oracle on the Pi4 segment's own transform
gup-spectra spectrum --model pt --alpha 1 --beta 0.5 --tau 0.25 --rep pi4 --nmax 5 --oracle --check > /dev/null
# the direct engine through n = 100, where its count reaches 16384 samples
gup-spectra expectation --model ho --tau 1e-3 --rep pi1 --nmax 100 X2 > /dev/null
# tau = 1e-40 puts every Gauss-Jacobi node within 1e-20 of z = 0
gup-spectra expectation --nmax 3 --tau 1e-40 H > /dev/null
# the orthonormal basis in z stays in the double range through level 40 at tau 1e-30
gup-spectra expectation --model ho --tau 1e-30 --nmax 40 X2 H > /dev/null
# a config file's rep is read where --rep would be: the direct engine
echo "rep=pi3" > pi3.cfg
gup-spectra expectation --config pi3.cfg --nmax 0 --format json H | python -c "import json, sys; payload = json.load(sys.stdin); assert payload['engine'] == 'direct', payload"
# the direct engine's mapped Pi3 grid matches the unified engine
# at tau 5, where the algebraic walls defeated a uniform grid
gup-spectra expectation --model ho --tau 5 --rep pi3 --nmax 1 X2 H > direct.csv
gup-spectra expectation --model ho --tau 5 --nmax 1 X2 H > unified.csv
same_values
# and its tanh-sinh map on the Pi4 segment, where f vanishes at the walls
gup-spectra expectation --model pt --alpha 1 --beta 0.5 --tau 0.25 --rep pi4 --nmax 1 X2 H > direct.csv
gup-spectra expectation --model pt --alpha 1 --beta 0.5 --tau 0.25 --nmax 1 X2 H > unified.csv
same_values
# and on Pi2, the one representation whose X has a b = beta a' term, with
# Swanson's XP and PX in H
gup-spectra expectation --model swanson --alpha 0.1 --beta 0.2 --tau 0.25 --rep pi2 --nmax 1 X2 H > direct.csv
gup-spectra expectation --model swanson --alpha 0.1 --beta 0.2 --tau 0.25 --nmax 1 X2 H > unified.csv
same_values
