"""The stripe geometry of ``repro.fs.file`` in its scalar and column forms.

``split`` (one range, plain ints) and ``split_rows`` (many ranges, int64
columns) must cut a byte range into the same ``(slot, dlocal, length)``
segments: one per stripe unit, one in all for a width-1 file.  Every
segment's blocks must map back through ``RedbudFile.to_logical`` onto the
range, in order, and the column inverse ``logical_of`` must agree with it
block by block.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fs.file import RedbudFile, logical_of, split, split_rows

BS = 4096

ranges = st.lists(
    st.tuples(
        st.integers(1, 48),  # stripe_blocks
        st.integers(1, 6),  # width
        st.integers(0, 600 * BS),  # offset (bytes)
        st.integers(1, 200 * BS),  # nbytes
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(ranges)
@example([(8, 1, 3 * BS, 20 * BS)])  # width 1 across stripe units: one segment
@example([(8, 3, 9 * BS, 3 * BS)])  # inside one stripe unit
@example([(8, 3, 6 * BS, 12 * BS), (4, 1, 5, 1)])  # mixed files, a one-byte op
def test_split_rows_is_split_and_inverts_to_logical(ops):
    sb, width, offset, nbytes = (np.array(c, dtype=np.int64) for c in zip(*ops))
    lb = offset // BS
    nb = (offset + nbytes - 1) // BS - lb + 1
    units, op, slot, dstart, dcount = split_rows(sb, width, lb, nb)
    assert units.tolist() == np.bincount(op, minlength=len(ops)).tolist()
    rows = list(zip(op.tolist(), slot.tolist(), dstart.tolist(), dcount.tolist()))
    for i, (s, w, _, _) in enumerate(ops):
        segments = split(s, w, int(lb[i]), int(nb[i]))
        assert [r[1:] for r in rows if r[0] == i] == segments
        first, last = int(lb[i]) // s, (int(lb[i] + nb[i]) - 1) // s
        assert len(segments) == (1 if w == 1 else last - first + 1)
        # Block by block, the segments cover the range in logical order.
        f = RedbudFile(file_id=1, name="/f", layout=list(range(w)), stripe_blocks=s)
        slots = np.repeat([g[0] for g in segments], [g[2] for g in segments])
        dlocal = np.concatenate([np.arange(d, d + n) for _, d, n in segments])
        logical = [f.to_logical(a, b) for a, b in zip(slots.tolist(), dlocal.tolist())]
        assert logical == list(range(int(lb[i]), int(lb[i] + nb[i])))
        assert logical_of(s, w, slots, dlocal).tolist() == logical
