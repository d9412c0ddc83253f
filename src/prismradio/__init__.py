"""Radio labelings of generalized prism graphs Z(n, s), 1 <= s <= 3.

The package builds the graphs with exact hop distances from a closed form
(``graphs``), knows the tight lower bound (n - 1) * phi(n, s) + 2 and its
gap parameters (``bounds``), constructs labelings meeting that bound
(``labeling``), audits any labeling pair-by-pair (``verification``), and can
prove radio numbers of small instances by branch-and-bound (``exact``).  The
``prismradio`` console script exposes all of it.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

from . import graphs, bounds, labeling, verification, exact
from .graphs import *
from .bounds import *
from .labeling import *
from .verification import *
from .exact import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += graphs.__all__
__all__ += bounds.__all__
__all__ += labeling.__all__
__all__ += verification.__all__
__all__ += exact.__all__
