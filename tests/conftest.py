import numpy as np


class TableScorer:
    """Test scorer: an input's first coordinate indexes a fixed table of
    score vectors."""

    def __init__(self, table, b=None):
        self.table = np.asarray(table, dtype=np.float64)
        self.b = float(b) if b is not None else float(np.abs(self.table).max() or 1.0)

    def scores_matrix(self, xs):
        return self.table[np.asarray(xs)[..., 0].astype(np.int64)]


class ConstantScorer:
    """All classes score the same constant value. With ``episodes`` set it
    stands for a scorer fitted on a batch of that many episodes."""

    def __init__(self, k, value=0.0, b=1.0, episodes=None):
        self.k = k
        self.value = float(value)
        self.b = float(b)
        self.failed = np.zeros(() if episodes is None else episodes, dtype=bool)

    def __getitem__(self, index):
        sub = ConstantScorer(self.k, self.value, self.b)
        sub.failed = self.failed[index]
        return sub

    def scores_matrix(self, xs):
        return np.full(np.shape(xs)[:-1] + (self.k,), self.value)
